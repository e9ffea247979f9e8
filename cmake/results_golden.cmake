# Golden-result check (ctest: results_golden_<name>).
#
# Runs an experiment binary at its default arguments in a fresh working
# directory, requires exit code 0 (its shape check passed) and requires
# every CSV it wrote there to be byte-identical to the committed copy in
# results/. An output that is not committed fails the check, and so does
# a committed <binary>.csv or <binary>.runs.csv the run no longer writes
# (every committed result is named after the binary that writes it).
#
# Usage: cmake -DEXE=<binary> -DWORKDIR=<scratch dir> -DRESULTS=<results dir>
#              -P results_golden.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED EXE OR NOT DEFINED WORKDIR OR NOT DEFINED RESULTS)
  message(FATAL_ERROR "EXE, WORKDIR and RESULTS must be defined")
endif()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
execute_process(
  COMMAND ${EXE}
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc} (shape check failed?)")
endif()

file(GLOB written RELATIVE ${WORKDIR} ${WORKDIR}/*.csv)
if(NOT written)
  message(FATAL_ERROR "${EXE} wrote no CSV into ${WORKDIR}")
endif()
get_filename_component(binary ${EXE} NAME_WE)
file(GLOB committed RELATIVE ${RESULTS}
     ${RESULTS}/${binary}.csv ${RESULTS}/${binary}.runs.csv)
foreach(name IN LISTS committed)
  if(NOT name IN_LIST written)
    message(FATAL_ERROR
        "${EXE} no longer writes ${name}, which is committed in results/")
  endif()
endforeach()

foreach(name IN LISTS written)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/${name} ${RESULTS}/${name}
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
        "${name} differs from the committed results/${name} or is not "
        "committed (${WORKDIR}/${name}): the run no longer reproduces "
        "the result")
  endif()
endforeach()
message(STATUS "${written} byte-identical to results/")
