# FrameBytesAutoCli: `km_run run --frame-bytes auto`, the spelling the
# usage text advertises, is accepted and means the same as omitting the
# flag (the threshold derived from B); a malformed value still exits 2.
#
# Invoked by CTest (see tests/CMakeLists.txt) as:
#   cmake -DKM_RUN=<km_run> -P frame_bytes_cli.cmake
if(NOT DEFINED KM_RUN)
  message(FATAL_ERROR "frame_bytes_cli.cmake: KM_RUN is not set")
endif()

set(cell run --workload components --dataset gnp:n=64,p=0.08 --k 4 --json -)

execute_process(COMMAND ${KM_RUN} ${cell} --frame-bytes auto
  OUTPUT_VARIABLE auto_out ERROR_VARIABLE auto_err RESULT_VARIABLE auto_rc)
if(NOT auto_rc EQUAL 0)
  message(FATAL_ERROR "--frame-bytes auto failed (exit ${auto_rc}):\n${auto_err}")
endif()

execute_process(COMMAND ${KM_RUN} ${cell}
  OUTPUT_VARIABLE default_out RESULT_VARIABLE default_rc)
if(NOT default_rc EQUAL 0)
  message(FATAL_ERROR "default run failed (exit ${default_rc})")
endif()

# Same resolved threshold and same summary line as the default.
foreach(pattern "\"frame_bytes\": [0-9]+" "rounds=[0-9]+ messages=[0-9]+ bits=[0-9]+")
  string(REGEX MATCH "${pattern}" auto_field "${auto_out}")
  string(REGEX MATCH "${pattern}" default_field "${default_out}")
  if(auto_field STREQUAL "" OR NOT auto_field STREQUAL default_field)
    message(FATAL_ERROR
      "--frame-bytes auto gave '${auto_field}', default gave '${default_field}'")
  endif()
endforeach()

execute_process(COMMAND ${KM_RUN} ${cell} --frame-bytes autox
  OUTPUT_QUIET ERROR_VARIABLE bad_err RESULT_VARIABLE bad_rc)
if(NOT bad_rc EQUAL 2)
  message(FATAL_ERROR "--frame-bytes autox should exit 2, got ${bad_rc}")
endif()
