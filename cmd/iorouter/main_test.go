package main

import (
	"flag"
	"fmt"
	"testing"

	"iotaxo/cmd/internal/proc"
)

// iorouter's process flags are the shell's: same types and defaults as
// ioserve's, -addr apart.
func TestSharedFlagsAreTheShells(t *testing.T) {
	fs := flag.NewFlagSet("iorouter", flag.ContinueOnError)
	newConfig(fs)
	shell := flag.NewFlagSet("shell", flag.ContinueOnError)
	proc.Register(shell, ":8070")
	shell.VisitAll(func(want *flag.Flag) {
		got := fs.Lookup(want.Name)
		if got == nil || fmt.Sprintf("%T", got.Value) != fmt.Sprintf("%T", want.Value) || got.DefValue != want.DefValue {
			t.Errorf("-%s is %+v, want the shell's %+v", want.Name, got, want)
		}
	})
}
