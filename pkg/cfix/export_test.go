package cfix

// The session decoder's tests live in package cfix_test, because they
// need a real cfixd, which imports this package. These names reach the
// decoder's two paths from there and exist only in the test binary.
var (
	DecodeSessionFast     = decodeSessionFast
	DecodeSessionResponse = decodeSessionResponse
)
