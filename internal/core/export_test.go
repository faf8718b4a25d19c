package core

// FixCorpora exposes the differential's inputs to the external test
// package, which may import internal/project.
var FixCorpora = fixCorpora
