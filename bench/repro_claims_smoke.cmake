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
# Figure 2: every tile that fits one CTA is in the report, every
# swizzle speedup over padding is >= 2x, each row grows with N, each
# column grows with M up to M=256, and the 512-row dips below the
# 256-row.
# Figure 6: the mxfp4 x f16 series is the fastest at every size.
# Figure 7: all 36 cases lower to a warp-shuffle plan that verifies,
# and the f16 speedup is >= the f32 speedup at every shape.
# Figure 8: the peak speedup is >= 10x, speedups do not increase down
# the rows, some row falls below 1.0x, and every row from the first one
# below 1.0x stays below it.
#
# The fig7 and fig8 groups each print how many values they compared
# and fail on 0.
#
# Script arguments (via -D):
#   FIG2     path to the fig2_transpose_swizzle binary
#   FIG6     path to the fig6_mxfp4_gemm binary
#   FIG7     path to the fig7_conversion binary
#   FIG8     path to the fig8_gather binary
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
run_bench("${FIG2}" fig2_transpose_swizzle fig2)
run_bench("${FIG6}" fig6_mxfp4_gemm fig6)
run_bench("${FIG7}" fig7_conversion fig7)
run_bench("${FIG8}" fig8_gather fig8)
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

# Figure 2's grid. A tile over one CTA's shared memory is printed as
# "-" and has no result; the cells found must number results.tiles.
set(fig2_sizes 32 64 128 256 512)
set(fig2_found 0)
foreach(m ${fig2_sizes})
    foreach(n ${fig2_sizes})
        string(JSON fig2_m${m}_n${n} ERROR_VARIABLE err GET "${fig2}"
               results "speedup.m${m}.n${n}")
        if(err)
            unset(fig2_m${m}_n${n})
        else()
            math(EXPR fig2_found "${fig2_found} + 1")
            math(EXPR compared "${compared} + 1")
        endif()
    endforeach()
endforeach()
result(fig2 tiles fig2_tiles)
claim(fig2 "every tile that fits one CTA is reported" ${fig2_found}
      EQUAL ${fig2_tiles})
foreach(m ${fig2_sizes})
    set(prev "")
    foreach(n ${fig2_sizes})
        if(NOT DEFINED fig2_m${m}_n${n})
            continue()
        endif()
        set(s ${fig2_m${m}_n${n}})
        claim(fig2 "${m}x${n} speedup >= 2x" ${s} GREATER_EQUAL 2.0)
        if(NOT prev STREQUAL "")
            claim(fig2 "${m}x${n} row grows with N" ${s} GREATER_EQUAL
                  ${prev})
        endif()
        set(prev ${s})
    endforeach()
endforeach()
foreach(n ${fig2_sizes})
    set(prev "")
    foreach(m 32 64 128 256)
        if(NOT DEFINED fig2_m${m}_n${n})
            continue()
        endif()
        set(s ${fig2_m${m}_n${n}})
        if(NOT prev STREQUAL "")
            claim(fig2 "${m}x${n} column grows with M" ${s} GREATER_EQUAL
                  ${prev})
        endif()
        set(prev ${s})
    endforeach()
    if(DEFINED fig2_m512_n${n})
        claim(fig2 "512x${n} dips below 256x${n}" ${fig2_m512_n${n}} LESS
              ${fig2_m256_n${n}})
    endif()
endforeach()

foreach(size 1024 2048 4096 8192)
    result(fig6 speedup.mxfp4xf16.${size} f16)
    result(fig6 speedup.mxfp4xbf16.${size} bf16)
    result(fig6 speedup.mxfp4xf8.${size} f8)
    claim(fig6 "mxfp4xf16 above mxfp4xbf16 at ${size}" ${f16} GREATER
          ${bf16})
    claim(fig6 "mxfp4xf16 above mxfp4xf8 at ${size}" ${f16} GREATER
          ${f8})
endforeach()

# group_compared(<figure> <start>): print how many values the
# <figure> predicates compared since `compared` was <start>; none is a
# failure.
macro(group_compared figure start)
    math(EXPR group_n "${compared} - ${start}")
    message(STATUS "${figure}: compared ${group_n} result value(s)")
    if(group_n EQUAL 0)
        list(APPEND failures "${figure}: compared no result value")
    endif()
endmacro()

set(fig7_start ${compared})
result(fig7 cases fig7_cases)
result(fig7 verified_shuffles fig7_verified)
claim(fig7 "36 cases" ${fig7_cases} EQUAL 36)
claim(fig7 "every case is a verified warp shuffle" ${fig7_verified} EQUAL
      ${fig7_cases})
foreach(rows 16 32 64 128)
    foreach(cols 64 128 256)
        result(fig7 speedup.${rows}x${cols}.f16 f16)
        result(fig7 speedup.${rows}x${cols}.f32 f32)
        claim(fig7 "[${rows},${cols}] f16 speedup >= f32" ${f16}
              GREATER_EQUAL ${f32})
    endforeach()
endforeach()
group_compared(fig7 ${fig7_start})

set(fig8_start ${compared})
set(peak 0)
set(prev "")
set(crossed "")
foreach(k 2 4 8 16 32 64 128)
    math(EXPR rows "1024 / ${k}")
    result(fig8 speedup.${rows}x${k} s)
    if(s GREATER peak)
        set(peak ${s})
    endif()
    if(NOT prev STREQUAL "")
        claim(fig8 "[${rows},${k}] speedup <= the row above" ${s}
              LESS_EQUAL ${prev})
    endif()
    if(crossed)
        claim(fig8 "[${rows},${k}] stays below 1.0x after [${crossed}]"
              ${s} LESS 1.0)
    elseif(s LESS 1.0)
        set(crossed "${rows},${k}")
    endif()
    set(prev ${s})
endforeach()
claim(fig8 "peak speedup >= 10x" ${peak} GREATER_EQUAL 10)
if(crossed)
    message(STATUS "fig8: first row below 1.0x: [${crossed}]")
else()
    list(APPEND failures "fig8: no row falls below 1.0x")
endif()
group_compared(fig8 ${fig8_start})

message(STATUS "repro claims: compared ${compared} result value(s) in "
               "${predicates} predicate(s)")
if(compared EQUAL 0 OR predicates EQUAL 0)
    message(FATAL_ERROR "repro claims compared nothing")
endif()
if(failures)
    string(REPLACE ";" "\n  " failures "${failures}")
    message(FATAL_ERROR "repro claims failed:\n  ${failures}")
endif()
