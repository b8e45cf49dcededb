module profipy/bench

go 1.24

require profipy v0.0.0

replace profipy => ../
