package main

import "fixture/internal/fix"

func main() { fix.Called() }
