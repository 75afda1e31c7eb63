package baseline

import (
	"platinum/internal/core"
	"platinum/internal/kernel"
)

// UniformSystemConfig returns a kernel configuration modeling BBN's
// Uniform System programming style on the same hardware: shared data is
// statically placed (scattered over memory modules) and never
// replicated or migrated — every access from a non-home processor is a
// remote reference. The NeverCache policy disables all data movement;
// the program places its pages with Space.PlaceAt (RunGaussUniform
// strides its matrix pages over the modules).
func UniformSystemConfig() kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.Core.Policy = core.NeverCache{}
	cfg.Core.DefrostPeriod = 0 // nothing ever freezes or thaws
	return cfg
}
