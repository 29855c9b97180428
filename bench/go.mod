module buddy/bench

go 1.24

require buddy v0.0.0

replace buddy => ../
