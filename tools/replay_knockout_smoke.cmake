# Replay a corpus case whose failpoints knock out every rung of the
# planner's fallback ladder, through llstat --case and llfuzz --replay.
# No rung can plan the case, so each tool must report the planning
# failure and exit 1: not 0, and not an abort.
#
# Script arguments (via -D):
#   LLSTAT   path to the llstat binary
#   LLFUZZ   path to the llfuzz binary
#   CASE     the corpus case to knock out
#   OUT_DIR  scratch dir for the knocked-out case file

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
file(READ "${CASE}" text)
foreach(site plan.noop plan.register-permute plan.warp-shuffle
        plan.optimal-swizzle plan.legacy-swizzle plan.padded plan.scalar)
    string(APPEND text "failpoint ${site}\n")
endforeach()
set(knocked "${OUT_DIR}/knockout.txt")
file(WRITE "${knocked}" "${text}")

function(expect_plan_failure tool)
    execute_process(COMMAND ${ARGN}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc STREQUAL "1")
        message(FATAL_ERROR "${tool} exited '${rc}' on a case no rung can "
                            "plan; want 1\n${out}${err}")
    endif()
    if(NOT err MATCHES "planning failed|planConversion failed")
        message(FATAL_ERROR "${tool} did not report the planning failure:"
                            "\n${out}${err}")
    endif()
endfunction()

expect_plan_failure(llstat "${LLSTAT}" --case "${knocked}" --metrics none)
expect_plan_failure(llfuzz "${LLFUZZ}" --replay "${knocked}")
message(STATUS "llstat and llfuzz report the knocked-out case as "
               "unplanned and exit 1")
