package main

import "fix/internal/b"

func main() { println(b.Total()) }
