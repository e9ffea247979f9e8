# Profiler overhead budget check (ctest: profiler_overhead).
#
# Runs a harness-ported campaign binary REPS times without any profiling
# flag (runtime-off: every instrumented site pays one thread-local load
# and branch) and REPS times with --profile-shape (profiler fully
# engaged), alternating off and on so that a slow phase of the host hits
# both sides. It takes the minimum process CPU time (user + system, the
# cpu_s column of the --timing-csv export) of each configuration, and
# fails if the profiled minimum exceeds the unprofiled minimum by more
# than 5% plus a small absolute allowance (ABS_SLACK_US, default 30 ms)
# that absorbs noise on very short campaigns. CPU time, unlike the wall
# clock, leaves out the time the process waits for a CPU; a core shared
# with another busy thread (SMT) or a lowered clock still slows it, and
# min-of-reps guards against those phases. The campaign runs on one
# worker: two workers' CPU time grows by a third or more whenever the host
# lets them run at once on sibling cores.
#
# Usage: cmake -DEXE=<binary> -DARGS=<common flags> -DOUT=<prefix>
#              [-DREPS=3] [-DABS_SLACK_US=30000] -P profiler_overhead.cmake
if(NOT DEFINED EXE OR NOT DEFINED OUT)
  message(FATAL_ERROR "EXE and OUT must be defined")
endif()
if(NOT DEFINED REPS)
  set(REPS 3)
endif()
if(NOT DEFINED ABS_SLACK_US)
  set(ABS_SLACK_US 30000)
endif()
separate_arguments(common_args UNIX_COMMAND "${ARGS}")

# Parses the cpu_s column (10th field, second line) of a --timing-csv
# export into integer microseconds; cmake math() is integer-only.
function(cpu_micros timing_file out_var)
  file(STRINGS ${timing_file} lines)
  list(GET lines 1 data)
  string(REPLACE "," ";" fields "${data}")
  list(GET fields 9 cpu_s)
  if(cpu_s MATCHES "^([0-9]+)\\.([0-9]+)$")
    set(int_part ${CMAKE_MATCH_1})
    set(frac_part ${CMAKE_MATCH_2})
  elseif(cpu_s MATCHES "^([0-9]+)$")
    set(int_part ${CMAKE_MATCH_1})
    set(frac_part "")
  else()
    message(FATAL_ERROR "unparseable cpu_s '${cpu_s}' in ${timing_file}")
  endif()
  string(SUBSTRING "${frac_part}000000" 0 6 frac_part)
  math(EXPR micros "${int_part} * 1000000 + ${frac_part}")
  set(${out_var} ${micros} PARENT_SCOPE)
endfunction()

# One run of the binary with `extra` flags; lowers `best_var` (in the
# caller's scope) to its CPU time if that is smaller.
function(run_and_keep_min tag rep extra best_var)
  separate_arguments(extra_args UNIX_COMMAND "${extra}")
  execute_process(
    COMMAND ${EXE} ${common_args} --jobs 1
      --csv ${OUT}_${tag}.csv
      --timing-csv ${OUT}_${tag}.timing.csv
      ${extra_args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc MATCHES "^[01]$")
    message(FATAL_ERROR "${EXE} (${tag}, rep ${rep}) exited abnormally: ${rc}")
  endif()
  cpu_micros(${OUT}_${tag}.timing.csv cpu)
  set(best "${${best_var}}")
  if(best STREQUAL "" OR cpu LESS best)
    set(${best_var} ${cpu} PARENT_SCOPE)
  endif()
endfunction()

set(off_us "")
set(on_us "")
foreach(rep RANGE 1 ${REPS})
  run_and_keep_min(off ${rep} "" off_us)
  run_and_keep_min(on ${rep} "--profile-shape ${OUT}_on.shape.csv" on_us)
endforeach()

math(EXPR limit_us "${off_us} * 105 / 100 + ${ABS_SLACK_US}")
message(STATUS
    "profiler overhead: off ${off_us} us, on ${on_us} us CPU "
    "(limit ${limit_us} us = +5% + ${ABS_SLACK_US} us slack, min of "
    "${REPS} reps)")
if(on_us GREATER limit_us)
  message(FATAL_ERROR
      "profiled campaign exceeded the 5% overhead budget: "
      "${on_us} us vs unprofiled ${off_us} us (limit ${limit_us} us)")
endif()
message(STATUS "profiler overhead within the 5% budget")
