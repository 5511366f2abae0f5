package compiler

// RandomGraph exposes the property tests' graph generator to the
// external test package.
var RandomGraph = randomGraph
