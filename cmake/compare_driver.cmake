# Smoke-compare a figure driver: run it in parallel mode, with
# --serial, and pinned to --threads 2, then byte-compare the three
# --json dumps. The dumps print doubles at max_digits10, so identical
# files <=> bit-identical results — this is the ctest-level
# thread-count determinism check for every sweep driver.
#
# With -DGOLDEN=<file>, the parallel dump's SHA-256 must also equal
# the digest recorded for NAME in that file (lines "<sha256>  <name>"),
# so the output stays byte-identical across changes to the code, not
# only across thread counts. With -DFRONTIER=ON the --serial run also
# writes --frontier-json, checked against the entry "<NAME>_frontier".
#
# Usage:
#   cmake -DDRIVER=<exe> -DOUTDIR=<dir> -DNAME=<tag>
#         [-DGOLDEN=<file>] [-DFRONTIER=ON] -P compare_driver.cmake

foreach(var DRIVER OUTDIR NAME)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_driver.cmake: -D${var}=... is required")
  endif()
endforeach()

set(par_json "${OUTDIR}/${NAME}_parallel.json")
set(ser_json "${OUTDIR}/${NAME}_serial.json")
set(two_json "${OUTDIR}/${NAME}_threads2.json")

execute_process(COMMAND "${DRIVER}" --json "${par_json}"
                RESULT_VARIABLE par_rc OUTPUT_QUIET)
if(NOT par_rc EQUAL 0)
  message(FATAL_ERROR "${NAME}: parallel run failed (rc=${par_rc})")
endif()

set(frontier_json "${OUTDIR}/${NAME}_frontier.json")
set(frontier_args)
if(FRONTIER)
  set(frontier_args --frontier-json "${frontier_json}")
endif()
execute_process(COMMAND "${DRIVER}" --serial --json "${ser_json}"
                        ${frontier_args}
                RESULT_VARIABLE ser_rc OUTPUT_QUIET)
if(NOT ser_rc EQUAL 0)
  message(FATAL_ERROR "${NAME}: --serial run failed (rc=${ser_rc})")
endif()

execute_process(COMMAND "${DRIVER}" --threads 2 --json "${two_json}"
                RESULT_VARIABLE two_rc OUTPUT_QUIET)
if(NOT two_rc EQUAL 0)
  message(FATAL_ERROR "${NAME}: --threads 2 run failed (rc=${two_rc})")
endif()

foreach(f "${par_json}" "${ser_json}" "${two_json}")
  if(NOT EXISTS "${f}")
    message(FATAL_ERROR "${NAME}: missing JSON dump ${f}")
  endif()
endforeach()

foreach(variant "${ser_json}" "${two_json}")
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${par_json}" "${variant}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR
            "${NAME}: ${variant} differs from the parallel dump — the "
            "bit-identical any-thread-count guarantee is broken")
  endif()
endforeach()

# Digest of `file` must match the golden entry `entry`.
function(check_golden file entry)
  file(STRINGS "${GOLDEN}" lines REGEX "^[0-9a-f]+  ${entry}$")
  list(LENGTH lines n)
  if(NOT n EQUAL 1)
    message(FATAL_ERROR "${NAME}: no golden digest for ${entry} in "
                        "${GOLDEN}")
  endif()
  string(REGEX REPLACE "^([0-9a-f]+)  .*$" "\\1" expected "${lines}")
  file(SHA256 "${file}" actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
            "${NAME}: ${file} has SHA-256 ${actual}, golden ${expected} "
            "— the driver's output changed")
  endif()
endfunction()

if(DEFINED GOLDEN)
  check_golden("${par_json}" "${NAME}")
  if(FRONTIER)
    check_golden("${frontier_json}" "${NAME}_frontier")
  endif()
endif()
