let included x = x + 3
