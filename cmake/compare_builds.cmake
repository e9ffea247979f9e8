# Output-identity check between two builds of the simulator.
#
# Runs the ten harness campaigns at their defaults with
# `--jobs 2 --events-out --metrics-out`, and the eight examples, from the
# PARENT and the CHANGE build tree, each campaign in its own fresh
# working directory. Fails on
#   - any file a campaign wrote (CSVs, event log, metrics, flight dumps)
#     that differs byte-for-byte or exists on one side only,
#   - any difference in a campaign's or example's stderr, compared as
#     sorted lines (two workers interleave their log lines); the distinct
#     lines whose count differs are printed with both counts, at most
#     20 per binary,
#   - any difference in an example's stdout.
# A campaign's stdout is not compared: it ends with a wall-clock line.
# A run that exits abnormally (neither 0 nor 1) fails on either side.
#
# Usage: cmake -DPARENT=<build dir> -DCHANGE=<build dir> [-DWORKDIR=<dir>]
#              -P cmake/compare_builds.cmake
# WORKDIR defaults to <CHANGE>/compare_builds and is emptied first.
cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED PARENT OR NOT DEFINED CHANGE)
  message(FATAL_ERROR "PARENT and CHANGE must be defined")
endif()
if(NOT DEFINED WORKDIR)
  set(WORKDIR ${CHANGE}/compare_builds)
endif()

set(campaigns
  exp_mode_coverage exp_environment_coverage exp_network_coverage
  exp_resource_coverage exp_diag_readout exp_policy_sweep exp_reset_storm
  exp_coverage exp_availability exp_node_supervision)
set(examples
  quickstart safespeed_demo safelane_demo fault_campaign gateway_demo
  schedule_viewer crash_demo network_fault_demo)

file(REMOVE_RECURSE ${WORKDIR})
set(failures "")

# Runs <tree>/<subdir>/<name> in WORKDIR/<side>/<name>; stdout and stderr
# land beside that directory as <name>.out / <name>.err.
function(run_binary side tree subdir name)
  set(dir ${WORKDIR}/${side}/${name})
  file(MAKE_DIRECTORY ${dir})
  execute_process(
    COMMAND ${tree}/${subdir}/${name} ${ARGN}
    WORKING_DIRECTORY ${dir}
    OUTPUT_FILE ${WORKDIR}/${side}/${name}.out
    ERROR_FILE ${WORKDIR}/${side}/${name}.err
    RESULT_VARIABLE rc)
  if(NOT rc MATCHES "^[01]$")
    message(FATAL_ERROR "${side} ${name} exited abnormally: ${rc}")
  endif()
endfunction()

# Sorted lines of a file, with list separators and brackets masked so
# every line stays one list element.
function(sorted_lines path out)
  file(READ ${path} text)
  string(REPLACE ";" "<sc>" text "${text}")
  string(REPLACE "[" "<lb>" text "${text}")
  string(REPLACE "]" "<rb>" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  list(SORT lines)
  set(${out} "${lines}" PARENT_SCOPE)
endfunction()

macro(require_same_file a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    list(APPEND failures "${what}")
  endif()
endmacro()

# Prints each distinct line of lines_a / lines_b (the caller's sorted
# lines) whose count differs between the two, with both counts, at most
# 20 of them. Counts are kept in variables keyed by the line's MD5, so a
# large stderr costs one pass per side.
function(print_line_counts what)
  set(distinct "")
  foreach(side a b)
    foreach(line IN LISTS lines_${side})
      string(MD5 key "${line}")
      if(NOT DEFINED seen_${key})
        set(seen_${key} 1)
        list(APPEND distinct "${line}")
      endif()
      if(DEFINED n_${side}_${key})
        math(EXPR n_${side}_${key} "${n_${side}_${key}} + 1")
      else()
        set(n_${side}_${key} 1)
      endif()
    endforeach()
  endforeach()
  message("  ${what}: lines whose count differs")
  set(cap 20)
  set(differing 0)
  foreach(line IN LISTS distinct)
    string(MD5 key "${line}")
    foreach(side a b)
      set(n_${side} 0)
      if(DEFINED n_${side}_${key})
        set(n_${side} ${n_${side}_${key}})
      endif()
    endforeach()
    if(n_a EQUAL n_b)
      continue()
    endif()
    math(EXPR differing "${differing} + 1")
    if(differing GREATER cap)
      continue()
    endif()
    string(REPLACE "<sc>" ";" line "${line}")
    string(REPLACE "<lb>" "[" line "${line}")
    string(REPLACE "<rb>" "]" line "${line}")
    message("    parent ${n_a}x, change ${n_b}x: ${line}")
  endforeach()
  if(differing GREATER cap)
    math(EXPR more "${differing} - ${cap}")
    message("    ... and ${more} more distinct line(s)")
  endif()
endfunction()

macro(require_same_sorted a b what)
  sorted_lines(${a} lines_a)
  sorted_lines(${b} lines_b)
  if(NOT lines_a STREQUAL lines_b)
    list(APPEND failures "${what}")
    print_line_counts("${what}")
  endif()
endmacro()

foreach(name IN LISTS campaigns)
  foreach(side parent change)
    if(side STREQUAL parent)
      set(tree ${PARENT})
    else()
      set(tree ${CHANGE})
    endif()
    run_binary(${side} ${tree} bench ${name} --jobs 2
               --events-out ${name}.events --metrics-out ${name}.metrics)
  endforeach()
  file(GLOB written_parent RELATIVE ${WORKDIR}/parent/${name}
       ${WORKDIR}/parent/${name}/*)
  file(GLOB written_change RELATIVE ${WORKDIR}/change/${name}
       ${WORKDIR}/change/${name}/*)
  if(NOT written_parent STREQUAL written_change)
    string(REPLACE ";" " " only "${written_parent} | ${written_change}")
    list(APPEND failures "${name}: different files written (${only})")
  endif()
  foreach(file IN LISTS written_parent)
    if(file IN_LIST written_change)
      require_same_file(${WORKDIR}/parent/${name}/${file}
                        ${WORKDIR}/change/${name}/${file} "${name}: ${file}")
    endif()
  endforeach()
  require_same_sorted(${WORKDIR}/parent/${name}.err
                      ${WORKDIR}/change/${name}.err "${name}: sorted stderr")
  list(LENGTH written_parent count)
  message(STATUS "${name}: ${count} written file(s) compared")
endforeach()

foreach(name IN LISTS examples)
  run_binary(parent ${PARENT} examples ${name})
  run_binary(change ${CHANGE} examples ${name})
  require_same_file(${WORKDIR}/parent/${name}.out
                    ${WORKDIR}/change/${name}.out "${name}: stdout")
  require_same_sorted(${WORKDIR}/parent/${name}.err
                      ${WORKDIR}/change/${name}.err "${name}: sorted stderr")
  message(STATUS "${name}: stdout and stderr compared")
endforeach()

if(failures)
  string(REPLACE ";" "\n  " report "${failures}")
  message(FATAL_ERROR "builds differ (outputs under ${WORKDIR}):\n  ${report}")
endif()
list(LENGTH campaigns n_campaigns)
list(LENGTH examples n_examples)
message(STATUS "identical: ${n_campaigns} campaigns, ${n_examples} examples")
