# Smoke-run llprof's per-rung report over BENCH JSON:
#   1. llserve over the seed corpus and the fig9 kernel suite on 8
#      threads writes BENCH_service.json, whose metrics carry the
#      planner's plan.rung.<rung>.evaluated and plan.kind.<kind>
#      counters;
#   2. llprof --bench over that directory must print the per-rung
#      evals/accepts table with a non-zero shared-memory row, say how
#      many counters it read, and exit 0;
#   3. llprof --bench over a report with no plan counters must exit 1:
#      a table over nothing checks nothing.
#
# Script arguments (via -D):
#   LLSERVE     path to the llserve binary
#   LLPROF      path to the llprof binary
#   CORPUS_DIR  seed corpus directory
#   OUT_DIR     scratch dir for the emitted reports

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}/service" "${OUT_DIR}/empty")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "LL_BENCH_JSON_DIR=${OUT_DIR}/service"
            "${LLSERVE}" --corpus "${CORPUS_DIR}" --kernels
            --threads 8 --repeat 2 --shuffle
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "llserve exited with ${rc}")
endif()

execute_process(
    COMMAND "${LLPROF}" --bench "${OUT_DIR}/service"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "llprof exited with ${rc}")
endif()
if(NOT out MATCHES "rung +evals +accepts")
    message(FATAL_ERROR "llprof report lacks the per-rung evals/accepts table")
endif()
if(NOT out MATCHES "shared-memory +[1-9][0-9]* +[1-9][0-9]*\n")
    message(FATAL_ERROR "llprof's shared-memory row is zero")
endif()
if(NOT out MATCHES "[1-9][0-9]* plan counter\\(s\\) from 1 report")
    message(FATAL_ERROR "llprof does not say how many counters it read")
endif()

file(WRITE "${OUT_DIR}/empty/BENCH_x.json"
     "{\"name\": \"x\", \"wall_ms\": {\"median\": 1.0}}\n")
execute_process(
    COMMAND "${LLPROF}" --bench "${OUT_DIR}/empty"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
            "llprof over a report without plan counters exited with "
            "${rc}, expected 1")
endif()
if(NOT err MATCHES "carries a plan.rung")
    message(FATAL_ERROR "llprof failed for another reason: ${err}")
endif()
