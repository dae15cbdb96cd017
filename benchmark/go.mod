// The benchmark is a module of its own so that it builds from its own
// build file and no file outside benchmark/ changes; the replace points
// at the repository it measures, one directory up.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
