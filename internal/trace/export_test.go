package trace

// ProbeStats returns the mean and the longest probe sequence a lookup
// of a present address walks (1 = found in its home slot).
func (x *AddrIndex) ProbeStats() (mean float64, longest int) {
	total := 0
	for i, s := range x.slots {
		if s.val < 0 {
			continue
		}
		n := int((uint64(i)-x.home(s.addr))&x.mask) + 1
		total += n
		longest = max(longest, n)
	}
	if x.n > 0 {
		mean = float64(total) / float64(x.n)
	}
	return mean, longest
}
