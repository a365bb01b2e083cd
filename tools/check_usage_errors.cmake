# Runs the tools on malformed command lines and requires each run to exit
# 2 (usage error): not a crash, not a SimError exit (1), and not a run
# that silently defaults the bad value.
#   - xprof, xtel, xfault: a non-numeric count, an unsupported width, a
#     bits/variant mismatch;
#   - xlint, xrace: a non-numeric or trailing-garbage number;
#   - bench_sim_throughput, bench_cluster_scaling (CI gates): a malformed,
#     empty or non-positive --min-speedup floor, a guard ratio outside
#     [0, 1], an unknown option.
#
#   cmake -DXLINT=... -DXRACE=... -DXPROF=... -DXTEL=... -DXFAULT=...
#         -DBENCH_SIM=... -DBENCH_CLUSTER=... -P check_usage_errors.cmake
function(expect_usage_error)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    string(REPLACE ";" " " cmd "${ARGN}")
    message(SEND_ERROR "${cmd}: exit status '${rc}', want 2\n${err}")
  endif()
endfunction()

foreach(tool IN ITEMS "${XPROF};--cores" "${XTEL};--cores" "${XFAULT};--inject")
  list(POP_FRONT tool exe count_opt)
  foreach(args IN ITEMS "${count_opt};abc" "--bits;3" "--variant;8b;--bits;4")
    expect_usage_error(${exe} --small ${args})
  endforeach()
endforeach()

foreach(args IN ITEMS "--mem-size;abc" "--base;0x10zz")
  expect_usage_error(${XLINT} --kernels ${args})
endforeach()
foreach(args IN ITEMS "--cores;4x" "--cores;abc")
  expect_usage_error(${XRACE} --static --kernels ${args})
endforeach()

foreach(bench IN ITEMS "${BENCH_SIM}" "${BENCH_CLUSTER}")
  foreach(args IN ITEMS "--min-speedup;abc" "--min-speedup;1.5x"
                        "--min-speedup;0" "--min-speedup" "--bogus")
    expect_usage_error(${bench} ${args})
  endforeach()
  # An empty $FLOOR reaches the bench as an empty argument, which a list
  # expansion would drop: pass it literally.
  execute_process(COMMAND ${bench} --min-speedup "" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "got ''")
    message(SEND_ERROR "${bench} --min-speedup '': exit status '${rc}', "
                       "want 2 rejecting the empty value\n${err}")
  endif()
endforeach()
foreach(args IN ITEMS "--guard-sampler;abc" "--guard-attribution;1.5")
  expect_usage_error(${BENCH_SIM} ${args})
endforeach()
