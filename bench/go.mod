// The benchmark is a module of its own so that it builds with its own build
// file; the s2/ path prefix is what lets it import the program's internal
// packages (baseline oracle, serve handler, sidecar workers).
module s2/bench

go 1.22

require s2 v0.0.0

replace s2 => ../
