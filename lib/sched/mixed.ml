let default_threshold = 10

let strategy ?(threshold = default_threshold) ?(small = Policy.ecef_la)
    ?(large = Policy.ecef_lat_max) () =
  Policy.sized ~threshold ~small ~large
