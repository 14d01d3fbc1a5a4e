package graph

// AllFamilies exposes allFamilies to the package's external tests,
// which drive the simulator (importing it from package graph itself
// would be a cycle).
var AllFamilies = allFamilies

// Namings exposes namings (identity, permuted and sparse relabelings)
// to the same tests.
var Namings = namings
