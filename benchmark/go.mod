module elsc/benchmark

go 1.21

require elsc v0.0.0

replace elsc => ../
