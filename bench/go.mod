module adscape/bench

go 1.22

require adscape v0.0.0

replace adscape => ../
