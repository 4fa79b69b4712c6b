module videodb/bench

go 1.22

require videodb v0.0.0

replace videodb => ../
