//go:build !unix

package segstore

import (
	"os"
	"path/filepath"
)

// lockDir opens dir/LOCK on platforms without flock. It excludes no
// one: there, keeping one owner per directory is the operator's job.
func lockDir(dir string) (*os.File, error) {
	return os.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o644)
}
