from peakpoly.cli import run_and_exit

if __name__ == "__main__":
    run_and_exit()
