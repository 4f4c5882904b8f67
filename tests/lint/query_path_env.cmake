# Lint: no layer a query or commit runs through reads the environment.
#
#   cmake -DSRC_DIR=<repo>/src -P query_path_env.cmake
#
# Fails when a source file under src/{plan,tpch,join,scan,exec,perf,mem,
# serve,txn,storage,index,sync} calls getenv, calls one of the common/env.h
# helpers (EnvString, EnvInt, EnvUint, EnvDouble, EnvBool, EnvBoolOpt) or
# includes common/env.h. A query is configured by its tpch::QueryConfig,
# and the serving, txn and storage layers by the option structs their
# callers pass (ServerOptions, TxnOptions, UpdateFeedOptions,
# BufferManager::Config). The process settings that remain (bench sizes,
# transition injection, trace and stats export) are read outside these
# directories. Text after // is ignored, so comments may name the
# calls.

if(NOT SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<src dir> -P "
                      "${CMAKE_CURRENT_LIST_FILE}")
endif()

set(query_path_dirs plan tpch join scan exec perf mem serve txn storage index
    sync)
set(forbidden
    "getenv[ \t]*\\("
    "(^|[^A-Za-z0-9_])Env(String|Int|Uint|Double|Bool|BoolOpt)[ \t]*\\("
    "#[ \t]*include[ \t]*[\"<]common/env\\.h[\">]")

set(violations 0)
set(scanned 0)
foreach(dir IN LISTS query_path_dirs)
  if(NOT IS_DIRECTORY "${SRC_DIR}/${dir}")
    message(FATAL_ERROR "missing query-path directory ${SRC_DIR}/${dir}")
  endif()
  file(GLOB_RECURSE files "${SRC_DIR}/${dir}/*.h" "${SRC_DIR}/${dir}/*.cc")
  foreach(path IN LISTS files)
    math(EXPR scanned "${scanned} + 1")
    file(READ "${path}" content)
    # Turn the file into a CMake list of lines. Characters that list
    # splitting treats specially are neutralised first, so every element
    # is exactly one source line and its index gives the line number.
    string(REPLACE "\\" "/" content "${content}")
    string(REPLACE "[" "(" content "${content}")
    string(REPLACE "]" ")" content "${content}")
    string(REPLACE ";" "," content "${content}")
    string(REPLACE "\n" ";" lines "${content}")
    file(RELATIVE_PATH rel "${SRC_DIR}" "${path}")
    set(line_no 0)
    foreach(line IN LISTS lines)
      math(EXPR line_no "${line_no} + 1")
      string(REGEX REPLACE "//.*$" "" code "${line}")
      foreach(pattern IN LISTS forbidden)
        if(code MATCHES "${pattern}")
          string(STRIP "${line}" shown)
          message(SEND_ERROR "src/${rel}:${line_no}: reads the environment: "
                             "${shown}")
          math(EXPR violations "${violations} + 1")
          break()
        endif()
      endforeach()
    endforeach()
  endforeach()
endforeach()

if(scanned EQUAL 0)
  message(FATAL_ERROR "no sources found under ${SRC_DIR}")
endif()
if(violations GREATER 0)
  message(FATAL_ERROR "${violations} environment read(s) on the query "
                      "path; configure through tpch::QueryConfig or the "
                      "layer's option struct instead")
endif()
message(STATUS "query path reads no environment (${scanned} files)")
