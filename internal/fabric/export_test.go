package fabric

// UseOracle routes every later settle of n through the naive reference
// fill (scopeOracle + fillOracle), the differential tests' trusted
// baseline. Call it before starting any flow.
func (n *Network) UseOracle() { n.oracle = true }
