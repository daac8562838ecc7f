# The reproduction's headline claims, checked on the "results" object
# the figure binaries write into their BENCH_<name>.json reports
# (bench::emitBenchJson). Each predicate compares numbers a bench
# printed; the script prints how many values it compared and fails
# when that is 0, so a report that lost its results cannot pass.
#
# Figure 9: the fig9 geomean speedup over legacy Triton is >= 1.0 on
# every platform, and GH200's is above both MI250's and RTX4090's.
#
# Script arguments (via -D):
#   FIG9     path to the fig9_real_kernels binary
#   LLSTAT   path to the llstat binary
#   OUT_DIR  scratch dir for the emitted reports

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            LL_BENCH_REPS=1 "LL_BENCH_JSON_DIR=${OUT_DIR}"
            "${FIG9}" --benchmark_filter=__nobench__
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fig9_real_kernels exited with ${rc}")
endif()
set(report_path "${OUT_DIR}/BENCH_fig9_real_kernels.json")
if(NOT EXISTS "${report_path}")
    message(FATAL_ERROR "fig9 did not emit BENCH_fig9_real_kernels.json")
endif()
execute_process(COMMAND "${LLSTAT}" --validate-bench-json "${OUT_DIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "BENCH_fig9_real_kernels.json schema validation "
                        "failed")
endif()

file(READ "${report_path}" report)
set(compared 0)
set(predicates 0)
set(failures "")

# result(<key> <out_var>): the number under "results" -> <key>; a missing
# key is a failure, not a skipped predicate.
macro(result key out_var)
    string(JSON ${out_var} ERROR_VARIABLE err GET "${report}" results
           "${key}")
    if(err)
        message(FATAL_ERROR "fig9 report has no results.${key}: ${err}")
    endif()
    math(EXPR compared "${compared} + 1")
endmacro()

# claim(<label> <lhs> <GREATER|GREATER_EQUAL> <rhs>): one predicate.
macro(claim label lhs op rhs)
    math(EXPR predicates "${predicates} + 1")
    if(NOT ${lhs} ${op} ${rhs})
        list(APPEND failures "${label} (${lhs} vs ${rhs})")
    endif()
    message(STATUS "fig9: ${label}: ${lhs} ${op} ${rhs}")
endmacro()

result(geomean.rtx4090 rtx4090)
result(geomean.gh200 gh200)
result(geomean.mi250 mi250)
claim("RTX4090 geomean >= 1.0" ${rtx4090} GREATER_EQUAL 1.0)
claim("GH200 geomean >= 1.0" ${gh200} GREATER_EQUAL 1.0)
claim("MI250 geomean >= 1.0" ${mi250} GREATER_EQUAL 1.0)
claim("GH200 geomean above MI250" ${gh200} GREATER ${mi250})
claim("GH200 geomean above RTX4090" ${gh200} GREATER ${rtx4090})

message(STATUS "repro claims: compared ${compared} result value(s) in "
               "${predicates} predicate(s)")
if(compared EQUAL 0 OR predicates EQUAL 0)
    message(FATAL_ERROR "repro claims compared nothing")
endif()
if(failures)
    string(REPLACE ";" "\n  " failures "${failures}")
    message(FATAL_ERROR "repro claims failed:\n  ${failures}")
endif()
