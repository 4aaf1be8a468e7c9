# Byte-identity check for the paper artifacts: runs `reproduce_paper
# <section>` once per listed section, writes its stdout to
# WORK_DIR/paper_<section>.stdout and compares it to the committed file of
# the same name under EXPECTED_DIR. Any difference, and any nonzero exit,
# fails the check after every section has run.
#
#   cmake -DTOOL=<reproduce_paper> -DSECTIONS=figure1,figure2 -DWORK_DIR=<dir>
#         -DEXPECTED_DIR=<dir> -P paper_stdout.cmake

foreach(var TOOL SECTIONS WORK_DIR EXPECTED_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "usage: cmake -DTOOL=<exe> -DSECTIONS=<s>,<s>... -DWORK_DIR=<dir> "
                        "-DEXPECTED_DIR=<dir> -P ${CMAKE_SCRIPT_MODE_FILE}")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
string(REPLACE "," ";" sections "${SECTIONS}")
set(failed "")
foreach(section IN LISTS sections)
  set(file "paper_${section}.stdout")
  execute_process(COMMAND "${TOOL}" "${section}"
                  RESULT_VARIABLE got
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  file(WRITE "${WORK_DIR}/${file}" "${out}")
  if(NOT got EQUAL 0)
    message(SEND_ERROR "'${TOOL} ${section}' exited '${got}':\n${err}")
    list(APPEND failed "${section}")
    continue()
  endif()
  file(READ "${EXPECTED_DIR}/${file}" want)
  if(NOT out STREQUAL want)
    message(SEND_ERROR "'${TOOL} ${section}' stdout differs from ${EXPECTED_DIR}/${file}\n"
                       "got:\n${out}\nexpected:\n${want}")
    list(APPEND failed "${section}")
    continue()
  endif()
  message(STATUS "ok: ${section}")
endforeach()
if(failed)
  message(FATAL_ERROR "sections differing from their golden stdout: ${failed}")
endif()
