package testutil

import (
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// Masks builds kernel k's selection bitmasks over seq, the set a partition
// memo holds for one cluster: what a test hands an executor (UseMasks, or
// a Run's Masks) so that its search probes masks, as a product run does
// whenever its kernel compiled an element. A search that is handed none
// interprets.
func Masks(k *pattern.Kernel, seq []storage.Row) *pattern.MaskSet {
	proj := k.NewProjection()
	proj.SetRows(seq)
	return k.BuildMasks(proj, nil)
}
