module fastjoin/benchmark

go 1.22

require fastjoin v0.0.0

replace fastjoin => ../
