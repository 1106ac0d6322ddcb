module era/benchmark

go 1.24

require era v0.0.0

replace era => ../
