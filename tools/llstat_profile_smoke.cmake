# Smoke-run llstat's span profile over the Figure 9 kernel suite:
#   llstat --kernels --profile --metrics none must exit 0 and print a
#   non-empty per-span table in which
#     - engine.assign has a row with a count > 0, and
#     - every row has 0 <= self_ms <= incl_ms (spans nest per thread,
#       so no self time is negative).
#
# Script arguments (via -D):
#   LLSTAT  path to the llstat binary

execute_process(
    COMMAND "${LLSTAT}" --kernels --profile --metrics none
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "llstat exited with ${rc}")
endif()

string(REGEX MATCH "span +count +incl_ms +self_ms\n(.*)" table "${out}")
if(NOT table)
    message(FATAL_ERROR "llstat printed no profile table header")
endif()
string(REPLACE "\n" ";" lines "${CMAKE_MATCH_1}")
set(rows 0)
set(assign_count 0)
foreach(line IN LISTS lines)
    if(line STREQUAL "")
        continue()
    endif()
    if(NOT line MATCHES
       "^([^ ]+) +([0-9]+) +(-?[0-9]+\\.[0-9]+) +(-?[0-9]+\\.[0-9]+)$")
        message(FATAL_ERROR "malformed profile row: '${line}'")
    endif()
    set(name "${CMAKE_MATCH_1}")
    set(count "${CMAKE_MATCH_2}")
    # Compare in integer microseconds: the table prints 3 decimals.
    string(REPLACE "." "" incl "${CMAKE_MATCH_3}")
    string(REPLACE "." "" self "${CMAKE_MATCH_4}")
    math(EXPR incl "${incl}")
    math(EXPR self "${self}")
    if(self LESS 0 OR self GREATER incl)
        message(FATAL_ERROR
                "row ${name}: self ${CMAKE_MATCH_4} ms is outside "
                "[0, incl ${CMAKE_MATCH_3} ms]")
    endif()
    if(name STREQUAL "engine.assign")
        set(assign_count "${count}")
    endif()
    math(EXPR rows "${rows} + 1")
endforeach()
if(rows EQUAL 0)
    message(FATAL_ERROR "the profile table is empty")
endif()
if(NOT assign_count GREATER 0)
    message(FATAL_ERROR "the profile has no engine.assign row with a "
                        "count > 0")
endif()
message("llstat profile: ${rows} row(s), engine.assign x${assign_count}")
