# Smoke-run the plan-provenance ledger pipeline end to end:
#   1. replay the seed corpus and the fig9 kernel suite through llstat
#      with LL_LEDGER set — every planned conversion must land in the
#      JSONL ledger;
#   2. llstat --validate-ledger: schema + exactly one terminal record
#      per planned conversion;
#   3. llserve over the same corpus with --ledger on 8 threads — the
#      coalesced service path must produce a schema-valid ledger too;
#   4. llprof over both ledgers must print the per-rung evals/accepts
#      table and exit 0;
#   5. llprof over a ledger of only unparseable lines must exit 1: a
#      report that read no record compared nothing.
#
# Script arguments (via -D):
#   LLSTAT      path to the llstat binary
#   LLSERVE     path to the llserve binary
#   LLPROF      path to the llprof binary
#   CORPUS_DIR  seed corpus directory
#   OUT_DIR     scratch dir for the emitted ledgers

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            "LL_LEDGER=${OUT_DIR}/ledger_llstat.jsonl"
            "${LLSTAT}" --corpus "${CORPUS_DIR}" --kernels
            --metrics none
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "llstat replay exited with ${rc}")
endif()
if(NOT EXISTS "${OUT_DIR}/ledger_llstat.jsonl")
    message(FATAL_ERROR "LL_LEDGER did not produce a ledger")
endif()

execute_process(
    COMMAND "${LLSTAT}"
            --validate-ledger "${OUT_DIR}/ledger_llstat.jsonl"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ledger schema validation failed")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "LL_BENCH_JSON_DIR=${OUT_DIR}"
            "${LLSERVE}" --corpus "${CORPUS_DIR}"
            --threads 8 --repeat 2 --shuffle
            --ledger "${OUT_DIR}/ledger_llserve.jsonl"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "llserve exited with ${rc}")
endif()

execute_process(
    COMMAND "${LLSTAT}"
            --validate-ledger "${OUT_DIR}/ledger_llserve.jsonl"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "llserve ledger schema validation failed")
endif()

execute_process(
    COMMAND "${LLPROF}"
            --ledger "${OUT_DIR}/ledger_llstat.jsonl"
            --ledger "${OUT_DIR}/ledger_llserve.jsonl"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "llprof exited with ${rc}")
endif()
if(NOT out MATCHES "rung +evals +accepts")
    message(FATAL_ERROR "llprof report lacks the per-rung evals/accepts table")
endif()

file(WRITE "${OUT_DIR}/ledger_garbage.jsonl"
     "not json\n{\"rung\":\"no-such-rung\"}\n")
execute_process(
    COMMAND "${LLPROF}" --ledger "${OUT_DIR}/ledger_garbage.jsonl"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
            "llprof over a ledger with no readable record exited with "
            "${rc}, expected 1")
endif()
