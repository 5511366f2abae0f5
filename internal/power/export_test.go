package power

// RCUOverheadPerRouter returns the RCU's area as a fraction of one
// baseline router (the paper reports 9.3% per router).
func RCUOverheadPerRouter(p RouterParams) float64 {
	return RCUTotal().AreaMM / RouterCost(p).AreaMM
}

// TeraflopsProcessor returns the §III-F comparison point (Intel
// Teraflops Research processor, low end of its 65-265 W range).
func TeraflopsProcessor() Cost {
	return Cost{Name: "Intel Teraflops (80-tile)", PowerW: 65, AreaMM: 275}
}
