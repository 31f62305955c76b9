package params

import "errors"

// Validate bounds LineBytes and BoundOnly. Its reads do not make
// either live; LineBytes is live through model.Step's own read.
func (c *Config) Validate() error {
	if c.LineBytes < 1 || c.BoundOnly < 0 {
		return errors.New("params: LineBytes must be positive and BoundOnly not negative")
	}
	return nil
}
