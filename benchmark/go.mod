module github.com/dpx10/dpx10/benchmark

go 1.24

require github.com/dpx10/dpx10 v0.0.0

replace github.com/dpx10/dpx10 => ../
