module inano/bench

go 1.24

require inano v0.0.0

replace inano => ../
