package noc

// Virtual-network indices used by the cache-traffic substrate. The snack
// vnet, when present, is appended after these.
const (
	VNetReq  = 0 // control messages: requests, acks (8 B)
	VNetResp = 1 // data messages: cache-line responses, writebacks (72 B)
)

// Message sizes in bytes for the cache substrate: an 8 B control header,
// and a 64 B cache block plus header for data messages.
const (
	CtrlBytes = 8
	DataBytes = 72
)

// commVNets builds the two communication vnets with the given per-vnet VC
// count and buffer depth.
func commVNets(vcs, depth int) []VNetConfig {
	return []VNetConfig{
		{Name: "req", VCs: vcs, BufDepth: depth},
		{Name: "resp", VCs: vcs, BufDepth: depth},
	}
}

// DAPPER returns the Table I configuration of the DAPPER NoC
// (Raparti & Pasricha, NOCS'18): 4-stage pipeline, 16 B channels,
// 5 VCs, 4 buffers per VC.
func DAPPER(width, height int) *Config {
	return &Config{
		Name:              "DAPPER",
		Width:             width,
		Height:            height,
		ChannelWidthBytes: 16,
		RouterLatency:     3, // + 1 link cycle = 4-stage
		LinkLatency:       1,
		VNets:             commVNets(5, 4),
		SnackVNet:         -1,
	}
}

// AxNoC returns the Table I configuration of AxNoC (Ahmed et al.,
// NOCS'18): 3-stage pipeline, 16 B channels, 4 VCs, 4 buffers per VC.
func AxNoC(width, height int) *Config {
	return &Config{
		Name:              "AxNoC",
		Width:             width,
		Height:            height,
		ChannelWidthBytes: 16,
		RouterLatency:     2, // + 1 link cycle = 3-stage
		LinkLatency:       1,
		VNets:             commVNets(4, 4),
		SnackVNet:         -1,
	}
}

// BiNoCHS returns the Table I configuration of BiNoCHS (Mirhosseini et
// al., NOCS'17): 2-stage pipeline, 32 B channels, 4 VCs, 4 buffers per VC.
// Fig 1 normalizes every other configuration against it.
func BiNoCHS(width, height int) *Config {
	return &Config{
		Name:              "BiNoCHS",
		Width:             width,
		Height:            height,
		ChannelWidthBytes: 32,
		RouterLatency:     1, // + 1 link cycle = 2-stage
		LinkLatency:       1,
		VNets:             commVNets(4, 4),
		SnackVNet:         -1,
	}
}

// Reduce returns a copy of cfg with resources divided for the Fig 1
// sensitivity study. Each divisor of 1 leaves the resource untouched;
// results are floored at 1.
func Reduce(cfg *Config, bufDiv, vcDiv, widthDiv int) *Config {
	out := *cfg
	out.VNets = append([]VNetConfig(nil), cfg.VNets...)
	div := func(x, d int) int {
		if d <= 1 {
			return x
		}
		x /= d
		if x < 1 {
			x = 1
		}
		return x
	}
	for i := range out.VNets {
		out.VNets[i].BufDepth = div(out.VNets[i].BufDepth, bufDiv)
		out.VNets[i].VCs = div(out.VNets[i].VCs, vcDiv)
	}
	out.ChannelWidthBytes = div(out.ChannelWidthBytes, widthDiv)
	switch {
	case bufDiv > 1:
		out.Name = cfg.Name + suffix(" Buffer / ", bufDiv)
	case vcDiv > 1:
		out.Name = cfg.Name + suffix(" VC / ", vcDiv)
	case widthDiv > 1:
		out.Name = cfg.Name + suffix(" Channel Width / ", widthDiv)
	}
	return &out
}

func suffix(label string, d int) string {
	return label + string(rune('0'+d))
}

// SnackPlatform returns the Table IV simulated platform: a 2-stage,
// 32 B-channel mesh with 4 VCs and 4 buffers per VC, plus the dedicated
// SnackNoC virtual network and per-router compute ports. priority selects
// the §III-D3 flit arbitration scheme.
func SnackPlatform(width, height int, priority bool) *Config {
	return SnackPlatformCustom(width, height, priority, 4, 4, 32)
}

// SnackPlatformCustom is SnackPlatform with the router resources left
// open — the design-space-exploration knobs: per-vnet VC count, buffer
// depth, and channel width in bytes. The snack vnet is a peer of the
// two cache vnets inside the same router, so all three share the
// swept VC/buffer provisioning.
func SnackPlatformCustom(width, height int, priority bool, vcs, bufDepth, chanBytes int) *Config {
	vnets := commVNets(vcs, bufDepth)
	vnets = append(vnets, VNetConfig{Name: "snack", VCs: vcs, BufDepth: bufDepth})
	return &Config{
		Name:              "SnackNoC",
		Width:             width,
		Height:            height,
		ChannelWidthBytes: chanBytes,
		RouterLatency:     1,
		LinkLatency:       1,
		VNets:             vnets,
		SnackVNet:         len(vnets) - 1,
		PriorityArb:       priority,
	}
}
