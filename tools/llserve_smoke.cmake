# Smoke-run the compilation service over the seed corpus: 4 threads,
# 4 repeat passes, shuffled, asserting the plan-cache hit rate the
# repeat passes must produce, then validate the BENCH_service.json it
# emits against the schema llstat enforces. A second run serves the
# fig9 kernels with layout synthesis on (--kernels --synth) into its own
# sub-directory: it must exit 0 with 0 failures and a valid report.
#
# Script arguments (via -D):
#   LLSERVE     path to the llserve binary
#   LLSTAT      path to the llstat binary
#   CORPUS_DIR  seed corpus directory
#   OUT_DIR     scratch dir for the emitted report

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# 4 repeat passes over N cases: at most N misses, so the hit rate is
# at least 75% even if every case is distinct. Expect 70 to keep a
# margin for eviction noise while still proving the cache works.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "LL_BENCH_JSON_DIR=${OUT_DIR}"
            "${LLSERVE}" --corpus "${CORPUS_DIR}"
            --threads 4 --repeat 4 --shuffle
            --expect-hit-rate 70
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "llserve exited with ${rc}")
endif()
if(NOT EXISTS "${OUT_DIR}/BENCH_service.json")
    message(FATAL_ERROR "llserve did not emit BENCH_service.json")
endif()

execute_process(COMMAND "${LLSTAT}" --validate-bench-json "${OUT_DIR}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "BENCH_service.json schema validation failed")
endif()

# Synthesis serving: kernel requests through the whole-kernel search.
set(SYNTH_DIR "${OUT_DIR}/synth")
file(MAKE_DIRECTORY "${SYNTH_DIR}")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "LL_BENCH_JSON_DIR=${SYNTH_DIR}"
            "${LLSERVE}" --kernels --synth --threads 2
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "llserve --kernels --synth exited with ${rc}")
endif()
if(NOT out MATCHES " 0 failure\\(s\\)")
    message(FATAL_ERROR "llserve --kernels --synth reported failures")
endif()
if(NOT EXISTS "${SYNTH_DIR}/BENCH_service.json")
    message(FATAL_ERROR "llserve --synth did not emit BENCH_service.json")
endif()

execute_process(COMMAND "${LLSTAT}" --validate-bench-json "${SYNTH_DIR}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "synthesis BENCH_service.json schema validation "
                        "failed")
endif()
