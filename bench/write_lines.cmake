# Writes OUT with one line per element of the CMake list LINES — input
# files for the hostile-input fixtures, made at test time rather than
# checked in.
#
# Usage:
#   cmake -DOUT=<path> "-DLINES=line1;line2;..." -P write_lines.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED OUT OR NOT DEFINED LINES)
  message(FATAL_ERROR "write_lines.cmake needs -DOUT and -DLINES")
endif()
list(JOIN LINES "\n" text)
file(WRITE ${OUT} "${text}\n")
