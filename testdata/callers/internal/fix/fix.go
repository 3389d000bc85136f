// Package fix is a fixture for the exported-caller check.
package fix

// OnlyTested is called from fix_test.go alone.
func OnlyTested() {}

// Called is called from cmd/app.
func Called() {}

// Seam is called by nothing but is listed as a seam.
func Seam() {}
