package cfix

// HeldVersion reports the version of the state c holds for session id.
// The session tests live in package cfix_test, because they need a real
// cfixd, which imports this package; this name exists only in the test
// binary.
func HeldVersion(c *Client, id string) (version int, held bool) {
	cs := c.session(id)
	if cs == nil {
		return 0, false
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.state.Version, true
}
