# The reproduction's headline claims, checked on the "results" objects
# the figure binaries write into their BENCH_<name>.json reports
# (bench::emitBenchJson). Each predicate compares numbers a bench
# printed; the script prints how many values it compared and fails
# when that is 0, so a report that lost its results cannot pass.
#
# Figure 9: the fig9 geomean speedup over legacy Triton is >= 1.0 on
# every platform, and GH200's is above both MI250's and RTX4090's.
# Table 5: Triton-Linear passes every one of the 784 mixed-precision
# cases, and the replayed legacy pass rate is the paper's 46.7%.
# Table 6: welford needs no layout conversion.
# Table 3: every one of the 10 rows' legacy and linear instruction
# widths is the paper's, bit for bit.
# Table 4: linear layouts pass every case of all 7 families, and the
# largest shared-store saving is the paper's 76%.
#
# Script arguments (via -D):
#   FIG9     path to the fig9_real_kernels binary
#   TAB3     path to the tab3_contiguity binary
#   TAB4     path to the tab4_broadcast binary
#   TAB5     path to the tab5_mixed_precision binary
#   TAB6     path to the tab6_op_distribution binary
#   LLSTAT   path to the llstat binary
#   OUT_DIR  scratch dir for the emitted reports

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# run_bench(<binary> <name> <out_var>): run one figure binary for one
# rep with its timing cases filtered out, and read the BENCH_<name>.json
# report it wrote into <out_var>.
function(run_bench binary name out_var)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env
                LL_BENCH_REPS=1 "LL_BENCH_JSON_DIR=${OUT_DIR}"
                "${binary}" --benchmark_filter=__nobench__
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} exited with ${rc}")
    endif()
    set(path "${OUT_DIR}/BENCH_${name}.json")
    if(NOT EXISTS "${path}")
        message(FATAL_ERROR "${name} did not emit BENCH_${name}.json")
    endif()
    file(READ "${path}" content)
    set(${out_var} "${content}" PARENT_SCOPE)
endfunction()

run_bench("${FIG9}" fig9_real_kernels fig9)
run_bench("${TAB5}" tab5_mixed_precision tab5)
run_bench("${TAB6}" tab6_op_distribution tab6)
run_bench("${TAB3}" tab3_contiguity tab3)
run_bench("${TAB4}" tab4_broadcast tab4)
execute_process(COMMAND "${LLSTAT}" --validate-bench-json "${OUT_DIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "BENCH report schema validation failed")
endif()

set(compared 0)
set(predicates 0)
set(failures "")

# result(<report> <key> <out_var>): the number under "results" -> <key>
# of the report held in variable <report>; a missing key is a failure,
# not a skipped predicate.
macro(result report key out_var)
    string(JSON ${out_var} ERROR_VARIABLE err GET "${${report}}" results
           "${key}")
    if(err)
        message(FATAL_ERROR "${report} report has no results.${key}: "
                            "${err}")
    endif()
    math(EXPR compared "${compared} + 1")
endmacro()

# claim(<figure> <label> <lhs> <op> <rhs>): one predicate, <op> one of
# if()'s numeric comparisons (GREATER, GREATER_EQUAL, EQUAL, ...).
macro(claim figure label lhs op rhs)
    math(EXPR predicates "${predicates} + 1")
    if(NOT ${lhs} ${op} ${rhs})
        list(APPEND failures "${figure}: ${label} (${lhs} vs ${rhs})")
    endif()
    message(STATUS "${figure}: ${label}: ${lhs} ${op} ${rhs}")
endmacro()

result(fig9 geomean.rtx4090 rtx4090)
result(fig9 geomean.gh200 gh200)
result(fig9 geomean.mi250 mi250)
claim(fig9 "RTX4090 geomean >= 1.0" ${rtx4090} GREATER_EQUAL 1.0)
claim(fig9 "GH200 geomean >= 1.0" ${gh200} GREATER_EQUAL 1.0)
claim(fig9 "MI250 geomean >= 1.0" ${mi250} GREATER_EQUAL 1.0)
claim(fig9 "GH200 geomean above MI250" ${gh200} GREATER ${mi250})
claim(fig9 "GH200 geomean above RTX4090" ${gh200} GREATER ${rtx4090})

result(tab5 linear_pass_pct linear_pct)
result(tab5 legacy_pass_pct legacy_pct)
result(tab5 cases tab5_cases)
claim(tab5 "linear passes every case" ${linear_pct} EQUAL 100)
claim(tab5 "legacy pass rate >= 46.6%" ${legacy_pct} GREATER_EQUAL 46.6)
claim(tab5 "legacy pass rate <= 46.8%" ${legacy_pct} LESS_EQUAL 46.8)
claim(tab5 "784 cases" ${tab5_cases} EQUAL 784)

result(tab6 converts.welford welford_converts)
claim(tab6 "welford has no conversion" ${welford_converts} EQUAL 0)

# Table 3 rows, k = 1, 2, 4, 8, 16 for each element width.
set(tab3_ks 1 2 4 8 16)
set(tab3_legacy_f8 32 16 32 64 128)
set(tab3_linear_f8 32 128 128 128 128)
set(tab3_legacy_f16 64 32 64 128 128)
set(tab3_linear_f16 64 128 128 128 128)
foreach(bits 8 16)
    foreach(i RANGE 4)
        list(GET tab3_ks ${i} k)
        foreach(side legacy linear)
            list(GET tab3_${side}_f${bits} ${i} want)
            result(tab3 ${side}_bits.f${bits}.k${k} got)
            claim(tab3 "[512,${k}] x f${bits} ${side} bits" ${got}
                  EQUAL ${want})
        endforeach()
    endforeach()
endforeach()

foreach(family blocked mma mma_input sliced_blocked sliced_mma
               sliced_mma_input custom)
    result(tab4 total.${family} cases)
    result(tab4 linear_pass.${family} passed)
    claim(tab4 "linear passes every ${family} case" ${passed} EQUAL
          ${cases})
endforeach()
result(tab4 max_store_saving_pct saving)
claim(tab4 "largest store saving is 76%" ${saving} EQUAL 76)

message(STATUS "repro claims: compared ${compared} result value(s) in "
               "${predicates} predicate(s)")
if(compared EQUAL 0 OR predicates EQUAL 0)
    message(FATAL_ERROR "repro claims compared nothing")
endif()
if(failures)
    string(REPLACE ";" "\n  " failures "${failures}")
    message(FATAL_ERROR "repro claims failed:\n  ${failures}")
endif()
