module saber/benchmark

go 1.22

require saber v0.0.0

replace saber => ../
