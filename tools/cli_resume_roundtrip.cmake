# End-to-end round trip for the `eta2` CLI durable path: a `simulate
# --durable` campaign followed by `resume --dir` of the same directory must
# succeed and report a resumed campaign. Regression for the manifest
# reconstruction bug where resume dropped the first manifest line (and with
# --durable first, refused to resume at all) — which is why --durable is
# deliberately the first simulate argument below. The same simulate without
# --durable must print the durable run's day table and overall-error line
# byte for byte (both drivers run on sim/campaign_driver.h).
#
# Invoked by ctest (see tools/CMakeLists.txt):
#   cmake -DETA2_BIN=<eta2 binary> -DWORK_DIR=<scratch dir> -P this_file
if(NOT DEFINED ETA2_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DETA2_BIN=... -DWORK_DIR=... -P cli_resume_roundtrip.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(campaign_dir "${WORK_DIR}/campaign")

set(campaign_args --dataset=synthetic --tasks=40 --seed=3)
execute_process(
  COMMAND "${ETA2_BIN}" simulate "--durable=${campaign_dir}" ${campaign_args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE durable_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "durable simulate failed (exit ${rc}):\n${durable_out}\n${err}")
endif()

execute_process(
  COMMAND "${ETA2_BIN}" simulate ${campaign_args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE plain_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "in-memory simulate failed (exit ${rc}):\n${plain_out}\n${err}")
endif()
if(NOT plain_out MATCHES "\\| day \\|" OR NOT plain_out MATCHES "overall error")
  message(FATAL_ERROR "simulate printed no day table / overall error:\n${plain_out}")
endif()
string(REGEX REPLACE "^durable campaign at [^\n]*\n" "" durable_table
       "${durable_out}")
if(NOT durable_table STREQUAL plain_out)
  message(FATAL_ERROR "durable and in-memory simulate disagree:\n"
                      "--- durable ---\n${durable_out}\n"
                      "--- in-memory ---\n${plain_out}")
endif()

if(NOT EXISTS "${campaign_dir}/manifest.txt")
  message(FATAL_ERROR "simulate --durable did not write ${campaign_dir}/manifest.txt")
endif()

execute_process(
  COMMAND "${ETA2_BIN}" resume "--dir=${campaign_dir}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resume failed (exit ${rc}):\n${out}\n${err}")
endif()
if(NOT out MATCHES "resumed")
  message(FATAL_ERROR "resume did not report a resumed campaign:\n${out}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
