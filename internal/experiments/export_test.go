package experiments

import "snacknoc/internal/cpu"

// Row returns the entry for one kernel, or nil.
func (r *Fig9Result) Row(k cpu.KernelName) *Fig9Row {
	for i := range r.Rows {
		if r.Rows[i].Kernel == k {
			return &r.Rows[i]
		}
	}
	return nil
}
