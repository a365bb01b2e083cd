# Runs the tools on malformed command lines and requires each run to exit
# 2 (usage error): not a crash, not a SimError exit (1), and not a run
# that silently defaults the bad value.
#   - xprof, xtel, xfault: a non-numeric count, an unsupported width, a
#     bits/variant mismatch;
#   - xlint, xrace: a non-numeric or trailing-garbage number.
#
#   cmake -DXLINT=... -DXRACE=... -DXPROF=... -DXTEL=... -DXFAULT=...
#         -P check_usage_errors.cmake
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
