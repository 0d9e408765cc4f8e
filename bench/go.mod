module tc2d/bench

go 1.24

require tc2d v0.0.0

replace tc2d => ../
