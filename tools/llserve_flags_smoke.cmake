# llserve's numeric flags parse strictly: a value that is not one whole
# finite number must exit 2 with an error naming the flag, instead of
# being read as a prefix ("5ms" -> 5) or as 0 ("abc" -> batch mode).
#
# Script arguments (via -D):
#   LLSERVE     path to the llserve binary
#   CORPUS_DIR  seed corpus directory
#   OUT_DIR     scratch dir (a report written by mistake lands here)

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

function(expect_refused flag value)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env "LL_BENCH_JSON_DIR=${OUT_DIR}"
                "${LLSERVE}" --corpus "${CORPUS_DIR}" ${flag} ${value}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "llserve ${flag} ${value}: want exit 2, got ${rc}\n${out}${err}")
    endif()
    string(FIND "${err}" "${flag}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "llserve ${flag} ${value}: error does not name the flag: ${err}")
    endif()
endfunction()

expect_refused(--rate abc)
expect_refused(--deadline-ms 5ms)
expect_refused(--duration nan)
expect_refused(--rate-sweep 0.5,x)
expect_refused(--seed -1)

if(EXISTS "${OUT_DIR}/BENCH_service.json")
    message(FATAL_ERROR "a refused invocation still served and reported")
endif()
