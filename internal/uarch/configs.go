package uarch

// Preset core configurations used across the case studies. Sizes follow the
// machines the paper evaluates on, scaled to the PVM-64 ISA.

// GainestownCore mimics an Intel Gainestown (Nehalem-EP) out-of-order core,
// the 8-core configuration of the Sniper case study (§IV.B).
func GainestownCore() CoreCfg {
	return CoreCfg{
		Name:                "gainestown",
		DispatchWidth:       4,
		ROBSize:             128,
		LSQSize:             48,
		MispredictPenalty:   17,
		ALULat:              1,
		MulLat:              3,
		DivLat:              20,
		VecLat:              2,
		BranchPredictorBits: 12,
		TLBEntries:          64,
		TLBWalk:             30,
	}
}

// NehalemCore is the gem5 case study's smaller configuration (Table V).
func NehalemCore() CoreCfg {
	c := GainestownCore()
	c.Name = "nehalem"
	return c
}

// HaswellCore is the gem5 case study's larger configuration: bigger ROB
// and load/store queue, wider dispatch (Table V).
func HaswellCore() CoreCfg {
	return CoreCfg{
		Name:                "haswell",
		DispatchWidth:       8,
		ROBSize:             192,
		LSQSize:             72,
		MispredictPenalty:   14,
		ALULat:              1,
		MulLat:              3,
		DivLat:              16,
		VecLat:              1,
		BranchPredictorBits: 14,
		TLBEntries:          128,
		TLBWalk:             26,
	}
}

// SkylakeCore is CoreSim's detailed model configuration (Table IV).
func SkylakeCore() CoreCfg {
	return CoreCfg{
		Name:                "skylake",
		DispatchWidth:       6,
		ROBSize:             224,
		LSQSize:             128,
		MispredictPenalty:   16,
		ALULat:              1,
		MulLat:              3,
		DivLat:              18,
		VecLat:              1,
		BranchPredictorBits: 14,
		TLBEntries:          128,
		TLBWalk:             26,
	}
}

// HardwareCore parameterizes the cheap "native hardware" reference model
// (package perfle) that ELFie-based validation measures with. It is
// deliberately simpler than the detailed simulators — real hardware and a
// simulator never agree exactly, which is why the paper's Fig. 9 errors
// "do not match exactly but follow similar trends".
func HardwareCore() CoreCfg {
	return CoreCfg{
		Name:                "hardware",
		DispatchWidth:       4,
		MispredictPenalty:   15,
		ALULat:              1,
		MulLat:              3,
		DivLat:              22,
		VecLat:              1,
		BranchPredictorBits: 13,
		TLBEntries:          96,
		TLBWalk:             28,
	}
}

// DesktopHierarchy returns a typical three-level hierarchy for n cores.
func DesktopHierarchy(n int) HierarchyCfg {
	return HierarchyCfg{
		L1I:        CacheCfg{Name: "L1I", SizeBytes: 32 << 10, Ways: 4, LatCycles: 1},
		L1D:        CacheCfg{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatCycles: 4},
		L2:         CacheCfg{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LatCycles: 12},
		L3:         CacheCfg{Name: "L3", SizeBytes: (2 << 20) * n, Ways: 16, LatCycles: 35},
		MemLatency: 200,
		Prefetch:   true,
	}
}

// SmallHierarchy is a reduced hierarchy for the cheap hardware model: one
// level of private cache plus memory, keeping native measurement fast.
func SmallHierarchy(n int) HierarchyCfg {
	return HierarchyCfg{
		L1I:        CacheCfg{Name: "L1I", SizeBytes: 32 << 10, Ways: 4, LatCycles: 1},
		L1D:        CacheCfg{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatCycles: 4},
		L2:         CacheCfg{Name: "L2", SizeBytes: 512 << 10, Ways: 8, LatCycles: 14},
		L3:         CacheCfg{Name: "L3", SizeBytes: (1 << 20) * n, Ways: 16, LatCycles: 40},
		MemLatency: 180,
		Prefetch:   false,
	}
}
