// Package faultfs abstracts the filesystem operations the durability
// layer performs, so tests can inject disk faults — write errors, sync
// failures, torn files — without touching the kernel. Production code
// uses OS; chaos tests wrap it in an Injector or corrupt files on disk
// with the helpers below.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// File is the subset of *os.File the durability layer writes through.
type File interface {
	io.Writer
	io.Closer
	Sync() error
}

// FS is the filesystem surface of the durability layer.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
}

// OS is the passthrough FS used in production.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir implements FS.
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// Stat implements FS.
func (OS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// RemoveAll implements FS.
func (OS) RemoveAll(path string) error { return os.RemoveAll(path) }

// WriteFileAtomic replaces path with data so that a crash leaves either
// the old file or the new one, never a torn mix (across power loss too
// when sync is set): it creates the parent directory, writes
// path+".tmp", syncs it when sync is set, and renames it over path.
func WriteFileAtomic(fsys FS, path string, data []byte, sync bool) error {
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// ErrInjected is the default error an armed Injector returns.
var ErrInjected = errors.New("faultfs: injected fault")

// Injector wraps an FS and injects failures into its write path. Arm it
// with FailWritesAfter: the next n Write/Sync/Rename calls succeed and
// every later one fails, modeling a disk that goes bad mid-operation.
// The zero state injects nothing.
type Injector struct {
	FS

	mu        sync.Mutex
	armed     bool
	remaining int
	err       error
	writes    int
}

// NewInjector wraps fsys (nil means OS).
func NewInjector(fsys FS) *Injector {
	if fsys == nil {
		fsys = OS{}
	}
	return &Injector{FS: fsys}
}

// FailWritesAfter arms the injector: the next n write-path operations
// succeed, all later ones return err (ErrInjected if nil).
func (i *Injector) FailWritesAfter(n int, err error) {
	if err == nil {
		err = ErrInjected
	}
	i.mu.Lock()
	i.armed, i.remaining, i.err = true, n, err
	i.mu.Unlock()
}

// Disarm stops injecting.
func (i *Injector) Disarm() {
	i.mu.Lock()
	i.armed = false
	i.mu.Unlock()
}

// Writes returns the number of write-path operations observed.
func (i *Injector) Writes() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.writes
}

// tick consumes one write-path operation and reports the injected
// error, if any.
func (i *Injector) tick() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.writes++
	if !i.armed {
		return nil
	}
	if i.remaining > 0 {
		i.remaining--
		return nil
	}
	return i.err
}

// OpenFile wraps the file so its writes consult the injector.
func (i *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := i.tick(); err != nil && flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE) != 0 {
		return nil, err
	}
	f, err := i.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, inj: i}, nil
}

// Rename consults the injector before delegating.
func (i *Injector) Rename(oldpath, newpath string) error {
	if err := i.tick(); err != nil {
		return err
	}
	return i.FS.Rename(oldpath, newpath)
}

type faultFile struct {
	File
	inj *Injector
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.inj.tick(); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.inj.tick(); err != nil {
		return err
	}
	return f.File.Sync()
}

// TruncateTail cuts the last n bytes off a file on the real filesystem,
// simulating a torn write after a crash.
func TruncateTail(path string, n int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := fi.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

// FlipBit XORs one bit of a file on the real filesystem, simulating
// media corruption.
func FlipBit(path string, byteOff int64, bit uint) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], byteOff); err != nil {
		return err
	}
	b[0] ^= 1 << (bit % 8)
	_, err = f.WriteAt(b[:], byteOff)
	return err
}
