# Runs xprof, xtel and xfault on malformed command lines — a non-numeric
# count, an unsupported width, a bits/variant mismatch — and requires each
# run to exit 2 (usage error): not a crash, not a SimError exit (1), and
# not a run that silently defaults the bad value.
#
#   cmake -DXPROF=... -DXTEL=... -DXFAULT=... -P check_usage_errors.cmake
foreach(tool IN ITEMS "${XPROF};--cores" "${XTEL};--cores" "${XFAULT};--inject")
  list(POP_FRONT tool exe count_opt)
  foreach(args IN ITEMS "${count_opt};abc" "--bits;3" "--variant;8b;--bits;4")
    execute_process(COMMAND ${exe} --small ${args} RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc STREQUAL "2")
      message(SEND_ERROR "${exe} --small ${args}: exit status '${rc}', "
                         "want 2\n${err}")
    endif()
  endforeach()
endforeach()
