package sim

import (
	"stfm/internal/dram"
	"stfm/internal/memctrl"
	"stfm/internal/memctrl/policy"
)

// Thin constructors keeping policy wiring details out of NewSystem.

func newFRFCFS() memctrl.Policy { return policy.NewFRFCFS() }

func newFCFS() memctrl.Policy { return policy.NewFCFS() }

func newCap(view memctrl.View, cap int, geom dram.Geometry) memctrl.Policy {
	return policy.NewFRFCFSCap(view, cap, geom.Channels, geom.BanksPerChannel)
}

func newNFQ(view memctrl.View, threads int, geom dram.Geometry, timing dram.Timing, weights []float64) (memctrl.Policy, error) {
	p := policy.NewNFQ(view, threads, geom.Channels, geom.BanksPerChannel, timing)
	if weights != nil {
		if err := p.SetShares(weights); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func newPARBS(view memctrl.View, geom dram.Geometry, cap int) memctrl.Policy {
	return policy.NewPARBS(view, geom.Channels, cap)
}

func newTCM(threads int) memctrl.Policy { return policy.NewTCM(threads) }
