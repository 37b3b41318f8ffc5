module sdimm/benchmark

go 1.22

require sdimm v0.0.0

replace sdimm => ../
