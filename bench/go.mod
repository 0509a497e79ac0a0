module iotaxo/bench

go 1.24

require iotaxo v0.0.0

replace iotaxo => ../
