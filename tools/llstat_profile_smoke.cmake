# Smoke-run llstat's span profile over the Figure 9 kernel suite, live
# and from the trace that run saved:
#   llstat --kernels --profile --metrics none --trace T.json must exit 0
#   and print a non-empty per-span table in which
#     - engine.assign has a row with a count > 0, and
#     - every row has 0 <= self_ms <= incl_ms (spans nest per thread,
#       so no self time is negative);
#   llstat --profile T.json must exit 0 and print the same span names
#   with the same counts, read back from the saved file.
#
# Script arguments (via -D):
#   LLSTAT   path to the llstat binary
#   OUT_DIR  scratch dir for the saved trace

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(trace "${OUT_DIR}/kernels.trace.json")

# Parse llstat's profile table out of `out` into a sorted list of
# "name=count" entries, checking every row on the way.
function(profile_rows out result)
    string(REGEX MATCH "span +count +incl_ms +self_ms\n(.*)" table "${out}")
    if(NOT table)
        message(FATAL_ERROR "llstat printed no profile table header")
    endif()
    string(REPLACE "\n" ";" lines "${CMAKE_MATCH_1}")
    set(rows "")
    set(assign_count 0)
    foreach(line IN LISTS lines)
        if(line STREQUAL "" OR line MATCHES "^llstat: ")
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
        list(APPEND rows "${name}=${count}")
    endforeach()
    list(LENGTH rows n)
    if(n EQUAL 0)
        message(FATAL_ERROR "the profile table is empty")
    endif()
    if(NOT assign_count GREATER 0)
        message(FATAL_ERROR "the profile has no engine.assign row with a "
                            "count > 0")
    endif()
    list(SORT rows)
    set(${result} "${rows}" PARENT_SCOPE)
endfunction()

execute_process(
    COMMAND "${LLSTAT}" --kernels --profile --metrics none
            --trace "${trace}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "llstat exited with ${rc}")
endif()
if(NOT EXISTS "${trace}")
    message(FATAL_ERROR "llstat wrote no trace to ${trace}")
endif()
profile_rows("${out}" live)

execute_process(
    COMMAND "${LLSTAT}" --profile "${trace}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "llstat --profile ${trace} exited with ${rc}")
endif()
profile_rows("${out}" saved)

if(NOT live STREQUAL saved)
    message(FATAL_ERROR "the saved trace's table differs from the live "
                        "one:\n  live:  ${live}\n  saved: ${saved}")
endif()
list(LENGTH live n)
message("llstat profile: ${n} row(s), the same from ${trace}")
