package topology

// appendOddEven appends the productive output ports a packet injected at
// cs, currently at cc, may take toward cd under the odd-even turn model
// (Chiu): east-to-north and east-to-south turns are forbidden at nodes in
// even columns, north-to-west and south-to-west turns at nodes in odd
// columns. Unlike west-first, the prohibitions are spread across the whole
// fabric, so no region degenerates to fully deterministic routing. It
// appends nothing only when cc == cd.
//
// Odd-even routing is deadlock-free on a mesh (the restricted turn graph
// admits no cycle), minimal, and livelock-free: every returned port
// strictly reduces the Manhattan distance to cd. The source column
// matters: a packet still in its injection column has not taken an
// eastward hop yet, so a vertical move there is not an east-to-north/south
// turn and is always legal.
func appendOddEven(ports []Port, cs, cc, cd Coord) []Port {
	if cc == cd {
		return ports
	}
	if cd.Col == cc.Col {
		// Same column: go straight; no turn is involved.
		return append(ports, vertical(cc, cd))
	}
	if cd.Col > cc.Col {
		// Eastbound. A vertical correction here is an east-to-north/south
		// turn unless the packet is still in its source column, so it is
		// allowed only at odd columns (or at the source). Continuing east
		// is allowed only while a legal future turn column remains: the
		// last vertical correction happens at the destination column, so
		// with exactly one column to go the destination column must be odd.
		if cc.Col%2 == 1 || cc.Col == cs.Col {
			if cd.Row != cc.Row {
				ports = append(ports, vertical(cc, cd))
			}
		}
		if cd.Row == cc.Row {
			return append(ports, EastPort)
		}
		if cd.Col%2 == 1 || cd.Col-cc.Col != 1 {
			ports = append(ports, EastPort)
		}
		return ports
	}
	// Westbound: west is always productive (turns into west happen at the
	// verticals below, which even columns permit), and a vertical
	// correction is allowed at even columns, where the subsequent
	// north/south-to-west turn is legal.
	ports = append(ports, WestPort)
	if cd.Row != cc.Row && cc.Col%2 == 0 {
		ports = append(ports, vertical(cc, cd))
	}
	return ports
}

// vertical is the row-correcting port from cc toward cd (rows differ).
func vertical(cc, cd Coord) Port {
	if cd.Row > cc.Row {
		return SouthPort
	}
	return NorthPort
}
