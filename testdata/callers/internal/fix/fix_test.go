package fix

import "testing"

func TestOnlyTested(t *testing.T) { OnlyTested() }
