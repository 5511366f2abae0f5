package cpu

import "fmt"

// Name identifies the core in messages.
func (c *Core) Name() string { return fmt.Sprintf("core%d(%s)", c.id, c.prof.Name) }
