# Campaign determinism gate (ctest: *_jobs_determinism*).
#
# Runs a campaign binary once per worker count in JOBS (default "1;4")
# with the same arguments and requires its --csv file, and the
# <stem>.runs.csv beside it when the binary writes one, to be
# byte-identical across the runs. ARTIFACTS (default empty) adds:
#
#   telemetry      the --events-out event log and the --metrics-out
#                  metrics export
#   profile_shape  the --profile-shape span-tree shape (paths, depths, hit
#                  counts, counters; no wall clock). Also runs an
#                  unprofiled reference at --jobs 2 whose CSVs every
#                  profiled run must match: profiling never alters results.
#
# The telemetry contract: events are sim-time stamped, sequence numbers
# restart per run, and exports are ordered by run index, so worker
# scheduling must not leak into the files.
#
# The binary's own exit code reflects its shape check, which a shrunk
# --runs sweep may legitimately fail; only a crash (abnormal exit) or an
# artifact mismatch fails the gate.
#
# Usage: cmake -DEXE=<binary> -DARGS=<common flags> -DOUT=<prefix>
#              [-DARTIFACTS=<list>] [-DJOBS=<list>] -P determinism.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED EXE OR NOT DEFINED OUT)
  message(FATAL_ERROR "EXE and OUT must be defined")
endif()
if(NOT DEFINED JOBS)
  set(JOBS 1 4)
endif()
separate_arguments(common_args UNIX_COMMAND "${ARGS}")

# Runs the campaign with its outputs under ${OUT}_<tag>; stale outputs of
# an earlier run are removed first so a missing file cannot compare equal.
function(run_campaign tag)
  set(prefix ${OUT}_${tag})
  file(REMOVE ${prefix}.csv ${prefix}.runs.csv ${prefix}.events
       ${prefix}.metrics ${prefix}.shape.csv)
  execute_process(
    COMMAND ${EXE} ${common_args} ${ARGN} --csv ${prefix}.csv
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc MATCHES "^[01]$")
    message(FATAL_ERROR "${EXE} ${ARGN} exited abnormally: ${rc}")
  endif()
endfunction()

function(require_same tag_a tag_b suffix why)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT}_${tag_a}${suffix} ${OUT}_${tag_b}${suffix}
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
        "${OUT}_${tag_a}${suffix} and ${OUT}_${tag_b}${suffix} differ: "
        "${why}")
  endif()
endfunction()

foreach(jobs IN LISTS JOBS)
  set(flags --jobs ${jobs})
  if(telemetry IN_LIST ARTIFACTS)
    list(APPEND flags --events-out ${OUT}_j${jobs}.events
                      --metrics-out ${OUT}_j${jobs}.metrics)
  endif()
  if(profile_shape IN_LIST ARTIFACTS)
    list(APPEND flags --profile-shape ${OUT}_j${jobs}.shape.csv)
  endif()
  run_campaign(j${jobs} ${flags})
endforeach()

list(GET JOBS 0 base)
set(csv_suffixes .csv)
if(EXISTS ${OUT}_j${base}.runs.csv)
  list(APPEND csv_suffixes .runs.csv)
endif()
set(suffixes ${csv_suffixes})
if(telemetry IN_LIST ARTIFACTS)
  list(APPEND suffixes .events .metrics)
endif()
if(profile_shape IN_LIST ARTIFACTS)
  list(APPEND suffixes .shape.csv)
endif()

foreach(jobs IN LISTS JOBS)
  if(NOT jobs EQUAL base)
    foreach(suffix IN LISTS suffixes)
      require_same(j${base} j${jobs} ${suffix}
                   "parallel execution broke determinism")
    endforeach()
  endif()
endforeach()

if(profile_shape IN_LIST ARTIFACTS)
  run_campaign(ref --jobs 2)
  foreach(jobs IN LISTS JOBS)
    foreach(suffix IN LISTS csv_suffixes)
      require_same(ref j${jobs} ${suffix}
                   "profiling must never alter campaign results")
    endforeach()
  endforeach()
endif()
message(STATUS "${suffixes} byte-identical across --jobs ${JOBS}")
