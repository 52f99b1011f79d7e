module supmr/bench

go 1.24

require supmr v0.0.0

replace supmr => ../
