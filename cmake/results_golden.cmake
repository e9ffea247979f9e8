# Golden-result check (ctest: results_golden_<name>).
#
# Runs an experiment binary at its default arguments in a fresh working
# directory, requires exit code 0 (its shape check passed) and requires
# every listed output file to be byte-identical to the committed copy in
# results/.
#
# Usage: cmake -DEXE=<binary> -DWORKDIR=<scratch dir> -DRESULTS=<results dir>
#              -DFILES=<semicolon list of output names> -P results_golden.cmake
if(NOT DEFINED EXE OR NOT DEFINED WORKDIR OR NOT DEFINED RESULTS
   OR NOT DEFINED FILES)
  message(FATAL_ERROR "EXE, WORKDIR, RESULTS and FILES must be defined")
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

foreach(name IN LISTS FILES)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/${name} ${RESULTS}/${name}
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
        "${name} differs from the committed results/${name} "
        "(${WORKDIR}/${name}): the run no longer reproduces the result")
  endif()
endforeach()
message(STATUS "${FILES} byte-identical to results/")
